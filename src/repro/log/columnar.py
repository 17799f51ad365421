"""Columnar record batches: the one read path and the one write path.

Records move between the log and the clients as *batches*; nothing is
materialized per event until a caller asks for it:

* :class:`ColumnarBatch` — the fetch result. It wraps a contiguous slice
  of a partition log's backing record list plus a set of *validity runs*:
  half-open ``(start, end)`` index ranges covering exactly the records
  visible at the fetch's isolation level (control markers and
  aborted-transaction records fall in the gaps between runs). Column
  accessors (``keys()``, ``values()``, ``timestamps()``, ...) and the
  scalar ``records`` view are built lazily, once, as plain lists.

* :class:`ColumnarSlab` — the write-side twin. A producer accumulates
  pending sends as parallel columns and ships the slab straight to the
  partition log, which constructs the final offset-stamped records in a
  single pass — skipping the intermediate per-record ``Record`` the scalar
  path built only to tear apart again at append time.

The validity runs are the compressed form of a validity/abort bitmap: a
batch with no skipped records is one run, and masking an aborted span is a
run split, not a per-record scan.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.log.record import NO_PRODUCER_ID, NO_SEQUENCE, Record


class ColumnarBatch:
    """A read-side batch: a backing record slice plus validity runs.

    ``backing`` is a snapshot slice of the partition log (so later
    truncation or compaction cannot corrupt the view); ``runs`` are
    half-open ``(start, end)`` pairs into that slice, ascending and
    disjoint, covering the valid (visible, committed) records.

    Carries the fetch-result metadata: ``next_offset`` (which can exceed
    the last returned record's offset + 1, because markers and aborted
    records are consumed position-wise but not returned) and the
    watermarks. The consumer stamps the origin ``topic`` / ``partition``
    and ``origin`` — the headers (routing, stage stamp) that whoever
    materializes records from the batch merges into theirs — before
    handing the batch to the app.
    """

    __slots__ = (
        "backing",
        "runs",
        "next_offset",
        "high_watermark",
        "last_stable_offset",
        "topic",
        "partition",
        "origin",
        "_records",
        "_keys",
        "_values",
        "_timestamps",
        "_offsets",
        "_headers",
        "_producer_ids",
        "_count",
    )

    def __init__(
        self,
        backing: List[Record],
        runs: List[Tuple[int, int]],
        next_offset: int = 0,
        high_watermark: int = 0,
        last_stable_offset: int = 0,
        topic: Optional[str] = None,
        partition: Optional[int] = None,
    ) -> None:
        self.backing = backing
        self.runs = runs
        self.next_offset = next_offset
        self.high_watermark = high_watermark
        self.last_stable_offset = last_stable_offset
        self.topic = topic
        self.partition = partition
        self.origin: Optional[Dict[str, Any]] = None
        self._records: Optional[List[Record]] = None
        self._keys: Optional[List[Any]] = None
        self._values: Optional[List[Any]] = None
        self._timestamps: Optional[List[float]] = None
        self._offsets: Optional[List[int]] = None
        self._headers: Optional[List[Dict[str, Any]]] = None
        self._producer_ids: Optional[List[int]] = None
        self._count = sum(end - start for start, end in runs)

    # -- size -------------------------------------------------------------------

    @property
    def valid_count(self) -> int:
        """Number of valid (visible) records in the batch."""
        return self._count

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    # -- lazy columns -----------------------------------------------------------
    #
    # Each accessor walks the validity runs once and caches the resulting
    # plain list; slicing the backing list is a C-level copy, so per-column
    # cost is one comprehension, not one method call per record.

    def keys(self) -> List[Any]:
        if self._keys is None:
            backing = self.backing
            self._keys = [
                r.key for s, e in self.runs for r in backing[s:e]
            ]
        return self._keys

    def values(self) -> List[Any]:
        if self._values is None:
            backing = self.backing
            self._values = [
                r.value for s, e in self.runs for r in backing[s:e]
            ]
        return self._values

    def timestamps(self) -> List[float]:
        if self._timestamps is None:
            backing = self.backing
            self._timestamps = [
                r.timestamp for s, e in self.runs for r in backing[s:e]
            ]
        return self._timestamps

    def offsets(self) -> List[int]:
        if self._offsets is None:
            backing = self.backing
            self._offsets = [
                r.offset for s, e in self.runs for r in backing[s:e]
            ]
        return self._offsets

    def headers(self) -> List[Dict[str, Any]]:
        """Raw (shared, not copied) header dicts of the valid records."""
        if self._headers is None:
            backing = self.backing
            self._headers = [
                r.headers for s, e in self.runs for r in backing[s:e]
            ]
        return self._headers

    def producer_ids(self) -> List[int]:
        if self._producer_ids is None:
            backing = self.backing
            self._producer_ids = [
                r.producer_id for s, e in self.runs for r in backing[s:e]
            ]
        return self._producer_ids

    # -- lazy scalar view -------------------------------------------------------

    @property
    def records(self) -> List[Record]:
        """The valid records as a list — the log's own (shared) record
        objects, so callers that hand them on must copy."""
        if self._records is None:
            backing = self.backing
            if len(self.runs) == 1:
                start, end = self.runs[0]
                self._records = backing[start:end]
            else:
                self._records = [
                    r for s, e in self.runs for r in backing[s:e]
                ]
        return self._records

    def __repr__(self) -> str:
        return (
            f"ColumnarBatch(valid={self._count}, backing={len(self.backing)}, "
            f"runs={len(self.runs)}, next_offset={self.next_offset})"
        )


class ColumnarSlab:
    """A write-side batch: parallel columns headed for one partition.

    Quacks like :class:`~repro.log.record.RecordBatch` for everything the
    append path needs (producer metadata, ``record_count``,
    ``last_sequence``), but the per-record ``Record`` objects are only
    constructed once, inside ``PartitionLog`` at offset-assignment time.
    """

    __slots__ = (
        "keys",
        "values",
        "timestamps",
        "headers",
        "producer_id",
        "producer_epoch",
        "base_sequence",
        "is_transactional",
    )

    def __init__(
        self,
        keys: List[Any],
        values: List[Any],
        timestamps: List[float],
        headers: List[Dict[str, Any]],
        producer_id: int = NO_PRODUCER_ID,
        producer_epoch: int = -1,
        base_sequence: int = NO_SEQUENCE,
        is_transactional: bool = False,
    ) -> None:
        if not keys:
            raise ValueError("a ColumnarSlab must contain at least one record")
        if not (len(keys) == len(values) == len(timestamps) == len(headers)):
            raise ValueError("ColumnarSlab columns must have equal lengths")
        self.keys = keys
        self.values = values
        self.timestamps = timestamps
        self.headers = headers
        self.producer_id = producer_id
        self.producer_epoch = producer_epoch
        self.base_sequence = base_sequence
        self.is_transactional = is_transactional

    @property
    def record_count(self) -> int:
        return len(self.keys)

    @property
    def last_sequence(self) -> int:
        if self.base_sequence == NO_SEQUENCE:
            return NO_SEQUENCE
        return self.base_sequence + len(self.keys) - 1

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:
        return (
            f"ColumnarSlab(n={len(self.keys)}, pid={self.producer_id}, "
            f"base_seq={self.base_sequence}, txn={self.is_transactional})"
        )
