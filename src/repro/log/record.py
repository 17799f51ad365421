"""Records and their headers, as the log's scalar readers see them.

A :class:`Record` models one Kafka log entry: a timestamped key/value pair
plus the producer metadata (producer id, epoch, sequence) that makes
idempotent and transactional appends possible, and an ``is_control`` flag
for transaction commit/abort markers (Section 4.2.2 of the paper). The log
stores columns; a ``Record`` is built only where a reader asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional

NO_PRODUCER_ID = -1
NO_SEQUENCE = -1

COMMIT_MARKER = "commit"
ABORT_MARKER = "abort"


class FrozenHeaders(dict):
    """Record headers as a log stores them: a ``dict`` that refuses writes.

    The one ownership rule: headers are frozen exactly once, where a
    producer takes them — ``Producer.send`` freezes a copy of the caller's
    dict, ``send_columns`` keeps a column that arrives frozen and freezes a
    copy of any other; the log's direct writers (coordinators, markers)
    carry none — and that object is what the log, every replica, poll,
    chunk, operator and sink share from then on. Reads, ``==``
    against a plain dict and ``dict(headers)``, the caller's own mutable
    copy, stay the C-level ``dict`` ones.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("record headers are read-only; change a dict(headers) copy")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):    # copy / pickle rebuild a dict subclass item by item
        return FrozenHeaders, (dict(self),)


#: The one shared empty instance: every record that has no headers.
NO_HEADERS = FrozenHeaders()


@dataclass(slots=True)
class Record:
    """One log entry.

    ``offset`` is assigned by the partition log at append time and is -1
    until then. ``timestamp`` is the event time set by the producer
    (Section 3.1: offset order need not match timestamp order).
    """

    key: Any
    value: Any
    timestamp: float = -1.0
    headers: Mapping[str, Any] = field(default_factory=lambda: NO_HEADERS)
    offset: int = -1
    producer_id: int = NO_PRODUCER_ID
    producer_epoch: int = -1
    sequence: int = NO_SEQUENCE
    is_transactional: bool = False
    is_control: bool = False
    control_type: Optional[str] = None   # COMMIT_MARKER | ABORT_MARKER

    def __repr__(self) -> str:  # compact, log-friendly
        if self.is_control:
            return f"Marker({self.control_type}, pid={self.producer_id}, off={self.offset})"
        return (
            f"Record(off={self.offset}, ts={self.timestamp}, "
            f"key={self.key!r}, value={self.value!r})"
        )


def RecordBatch(
    records: List[Record],
    producer_id: int = NO_PRODUCER_ID,
    producer_epoch: int = -1,
    base_sequence: int = NO_SEQUENCE,
    is_transactional: bool = False,
):
    """A producer batch written record by record: ``records``' keys,
    values, timestamps and headers as the
    :class:`~repro.log.columnar.ColumnarSlab` the log takes.

    Only the first record's sequence number is encoded; followers are
    inferred monotonically (Section 4.1). ``base_sequence`` is -1 for
    non-idempotent producers. Markers are not data; they are appended
    with ``append_marker``.
    """
    from repro.log.columnar import ColumnarSlab   # columnar imports Record

    if any(record.is_control for record in records):
        raise ValueError("control records are appended with append_marker")
    return ColumnarSlab(
        [record.key for record in records],
        [record.value for record in records],
        [record.timestamp for record in records],
        [record.headers for record in records],
        producer_id, producer_epoch, base_sequence, is_transactional,
    )
