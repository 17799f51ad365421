"""Columnar record batches: what the log stores, reads back and takes in.

Records move between producer, log and consumer as *batches* of parallel
columns; a per-record object exists only where a caller asks for one:

* :class:`ColumnarSlab` — the write side. A producer accumulates pending
  sends as parallel columns and ships the slab to the partition log; the
  coordinators write their offset commits and transaction state the same
  way.

* :class:`StoredBatch` — what the log keeps. Appending a slab wraps its
  column lists, *by reference*, in one immutable stored batch: a base
  offset plus the batch-level producer id, epoch, base sequence and
  transactional / control flags (Kafka's batch header). A stored batch is
  never mutated and never merged with a neighbour, so followers hold the
  leader's stored batches by reference; truncation and deletion *inside*
  a batch build a new one from a slice. Its headers
  (:class:`~repro.log.record.FrozenHeaders`) reach every reader as they are.

* :class:`ColumnarBatch` — the fetch result: the run of stored batches
  visible at the fetch's isolation level (control batches and the batches
  of aborted transactions are left out), trimmed at both ends to the
  fetch window. ``columns()`` gathers the five columns a reader sees in
  one walk of the run, or, for records read twice before, slices them
  out of the log's column prefix; the single-column accessors (``keys()``,
  ``timestamps()``, ...) serve readers of one column.

* :class:`RecordView` — the scalar edge: a lazy, list-like view of a run
  of stored batches as :class:`~repro.log.record.Record` objects. Each
  stored batch materializes its record list once and every view (and
  every replica sharing the batch) hands out those same objects.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import islice
from operator import attrgetter
from typing import (
    Any, Callable, Iterable, Iterator, List, Mapping, Optional, Tuple,
)

from repro.log.record import NO_PRODUCER_ID, NO_SEQUENCE, Record


class StoredBatch:
    """One appended batch as the log stores it. Immutable once built.

    ``keys`` / ``values`` / ``timestamps`` / ``headers`` are the parallel
    columns of the retained records, at offsets ``base_offset`` up to
    ``end_offset`` (exclusive) with no gap. ``base_sequence`` is the
    sequence number of the first retained record; sequences advance with
    offsets. A control batch (``control_type`` set) holds one transaction
    marker.
    """

    __slots__ = (
        "base_offset",
        "end_offset",
        "keys",
        "values",
        "timestamps",
        "headers",
        "producer_id",
        "producer_epoch",
        "base_sequence",
        "is_transactional",
        "control_type",
        "_records",
    )

    def __init__(
        self,
        base_offset: int,
        keys: List[Any],
        values: List[Any],
        timestamps: List[float],
        headers: List[Mapping[str, Any]],
        producer_id: int = NO_PRODUCER_ID,
        producer_epoch: int = -1,
        base_sequence: int = NO_SEQUENCE,
        is_transactional: bool = False,
        control_type: Optional[str] = None,
    ) -> None:
        self.base_offset = base_offset
        self.end_offset = base_offset + len(keys)
        self.keys = keys
        self.values = values
        self.timestamps = timestamps
        self.headers = headers
        self.producer_id = producer_id
        self.producer_epoch = producer_epoch
        self.base_sequence = base_sequence
        self.is_transactional = is_transactional
        self.control_type = control_type
        self._records: Optional[List[Record]] = None

    def __len__(self) -> int:
        return len(self.keys)

    def position(self, offset: int) -> int:
        """Index of the first retained record at or beyond ``offset``."""
        return min(max(offset - self.base_offset, 0), len(self.keys))

    def offset_at(self, position: int) -> int:
        return self.base_offset + position

    # -- derived columns (sliceable, one entry per retained record) -------------

    def offset_column(self) -> Sequence:
        return range(self.base_offset, self.end_offset)

    def sequence_column(self) -> Sequence:
        first = self.base_sequence
        if first == NO_SEQUENCE:
            return [NO_SEQUENCE] * len(self.keys)
        return range(first, first + len(self.keys))

    def producer_id_column(self) -> List[int]:
        return [self.producer_id] * len(self.keys)

    # -- copy-on-write ------------------------------------------------------------

    def slice(self, lo: int, hi: Optional[int] = None) -> "StoredBatch":
        """A new batch holding positions ``[lo, hi)`` (must be non-empty)."""
        base_sequence = self.base_sequence
        if base_sequence != NO_SEQUENCE:
            base_sequence += lo
        return StoredBatch(
            self.base_offset + lo,
            self.keys[lo:hi],
            self.values[lo:hi],
            self.timestamps[lo:hi],
            self.headers[lo:hi],
            self.producer_id,
            self.producer_epoch,
            base_sequence,
            self.is_transactional,
            self.control_type,
        )

    # -- the scalar edge ------------------------------------------------------------

    def records(self) -> List[Record]:
        """The batch as ``Record`` objects, built once and shared by every
        view and replica that holds this batch. Read-only."""
        records = self._records
        if records is None:
            pid = self.producer_id
            epoch = self.producer_epoch
            transactional = self.is_transactional
            control_type = self.control_type
            is_control = control_type is not None
            # Positional construction: Record is a slots dataclass and the
            # keyword form measurably slows this loop.
            records = self._records = [
                Record(
                    key, value, timestamp, headers, offset, pid, epoch,
                    sequence, transactional, is_control, control_type,
                )
                for key, value, timestamp, headers, offset, sequence in zip(
                    self.keys, self.values, self.timestamps, self.headers,
                    self.offset_column(), self.sequence_column(),
                )
            ]
        return records

    def __repr__(self) -> str:
        kind = self.control_type or ("txn" if self.is_transactional else "data")
        return (
            f"StoredBatch({kind}, [{self.base_offset}, {self.end_offset}), "
            f"n={len(self.keys)}, pid={self.producer_id})"
        )


class _BatchRun:
    """A run of stored batches, the first one trimmed to start at position
    ``lo`` and the last one to stop before position ``hi``."""

    __slots__ = ("_batches", "_lo", "_hi", "_count")

    def __init__(
        self, batches: Sequence, lo: int = 0, hi: int = 0, count: int = 0
    ) -> None:
        self._batches = batches
        self._lo = lo
        self._hi = hi
        self._count = count

    def __len__(self) -> int:
        return self._count

    def _gather(self, column: Callable[[StoredBatch], Iterable]) -> List[Any]:
        """``column(batch)`` of every batch of the run, end to end: one
        C-level slice or list extension per stored batch."""
        batches = self._batches
        last = len(batches) - 1
        if last < 0:
            return []
        if last == 0:
            return list(column(batches[0])[self._lo:self._hi])
        out = list(column(batches[0])[self._lo:])
        for i in range(1, last):
            out += column(batches[i])
        out += column(batches[last])[:self._hi]
        return out


class RecordView(_BatchRun, Sequence):
    """A lazy, read-only, list-like view of a run of stored batches as
    ``Record`` objects — the log's own, shared ones, so callers that hand
    them on must copy. ``len()`` is free; anything that touches a record
    concatenates the batches' cached record lists, once."""

    __slots__ = ("_list",)

    def __init__(
        self, batches: Sequence, lo: int = 0, hi: int = 0, count: int = 0
    ) -> None:
        super().__init__(batches, lo, hi, count)
        self._list: Optional[List[Record]] = None

    def _records(self) -> List[Record]:
        if self._list is None:
            self._list = self._gather(StoredBatch.records)
        return self._list

    def __getitem__(self, index):
        if self._list is None and self._count and index in (0, -1):
            # Peeking at either end (a pager's ``page[-1].offset``) touches
            # one stored batch, not the whole run.
            if index == 0:
                return self._batches[0].records()[self._lo]
            return self._batches[-1].records()[self._hi - 1]
        return self._records()[index]

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records())

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordView):
            if (
                (self._count, self._lo, self._hi)
                == (other._count, other._lo, other._hi)
                and self._batches == other._batches
            ):
                # The same stored batches (a follower holds its leader's):
                # equal without materializing a record.
                return True
            return self._records() == other._records()
        if isinstance(other, list):
            return self._records() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RecordView({self._records()!r})"


_VALUES = attrgetter("values")
_TIMESTAMPS = attrgetter("timestamps")
_HEADERS = attrgetter("headers")


class ColumnarBatch(_BatchRun):
    """A fetch result: the visible run of stored batches plus the fetch
    metadata.

    The run holds exactly the records visible at the fetch's isolation
    level, in offset order; its stored batches are the log's own and are
    immutable, so later truncation or deletion cannot corrupt the view.
    Every accessor returns a fresh list the caller owns (the *elements* —
    keys, values, read-only header mappings — are shared with the log).

    ``next_offset`` can exceed the last returned record's offset + 1,
    because markers and aborted records are consumed position-wise but not
    returned; ``scanned`` counts those positions too. A fetch of records
    read twice before carries a *window* ``(prefix, start, end)`` on the
    log's column prefix: five lists that hold the run's visible columns at
    ``[start, end)`` and that the log only ever extends at their end. The
    consumer stamps the origin ``topic`` / ``partition`` — and, traced,
    the virtual time of the fetch as ``fetched_at`` — before handing the
    batch to the app.
    """

    __slots__ = (
        "scanned",
        "next_offset",
        "high_watermark",
        "last_stable_offset",
        "topic",
        "partition",
        "fetched_at",
        "_view",
        "_window",
    )

    def __init__(
        self,
        next_offset: int = 0,
        high_watermark: int = 0,
        last_stable_offset: int = 0,
        batches: Sequence = (),
        lo: int = 0,
        hi: int = 0,
        count: int = 0,
        scanned: int = 0,
        window: Optional[Tuple[Tuple[List[Any], ...], int, int]] = None,
    ) -> None:
        super().__init__(batches, lo, hi, count)
        self._window = window
        self.scanned = scanned
        self.next_offset = next_offset
        self.high_watermark = high_watermark
        self.last_stable_offset = last_stable_offset
        self.topic: Optional[str] = None
        self.partition: Optional[int] = None
        self.fetched_at: Optional[float] = None
        self._view: Optional[RecordView] = None

    # -- size -------------------------------------------------------------------

    @property
    def valid_count(self) -> int:
        """Number of valid (visible) records in the batch."""
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    @property
    def backing(self) -> range:
        """The scanned positions, masked ones included: ``len(backing)``
        against ``valid_count`` is the share of the scan that was returned."""
        return range(self.scanned)

    # -- columns ------------------------------------------------------------------

    def columns(self) -> Tuple[
        List[int], List[float], List[Any], List[Any], List[Mapping[str, Any]]
    ]:
        """``(offsets, timestamps, keys, values, headers)`` in one pass over
        the run: five fresh lists the caller owns, equal to what the five
        single-column accessors return. With a window they are five slices
        of it; otherwise only the first and the last stored batch are
        sliced, and every batch between costs five list extensions. A
        caller that reads two or more columns of one fetch reads them
        here."""
        window = self._window
        if window is not None:
            (offsets, timestamps, keys, values, headers), start, end = window
            return (
                offsets[start:end], timestamps[start:end], keys[start:end],
                values[start:end], headers[start:end],
            )
        batches = self._batches
        if not batches:
            return [], [], [], [], []
        lo, hi = self._lo, self._hi
        first = batches[0]
        if len(batches) == 1:
            return (
                list(range(first.base_offset + lo, first.base_offset + hi)),
                first.timestamps[lo:hi],
                first.keys[lo:hi],
                first.values[lo:hi],
                first.headers[lo:hi],
            )
        offsets = list(range(first.base_offset + lo, first.end_offset))
        timestamps = first.timestamps[lo:]
        keys = first.keys[lo:]
        values = first.values[lo:]
        headers = first.headers[lo:]
        last = batches[-1]
        for batch in islice(batches, 1, len(batches) - 1):
            offsets += range(batch.base_offset, batch.end_offset)
            timestamps += batch.timestamps
            keys += batch.keys
            values += batch.values
            headers += batch.headers
        offsets += range(last.base_offset, last.base_offset + hi)
        timestamps += last.timestamps[:hi]
        keys += last.keys[:hi]
        values += last.values[:hi]
        headers += last.headers[:hi]
        return offsets, timestamps, keys, values, headers

    def values(self) -> List[Any]:
        return self._gather(_VALUES)

    def timestamps(self) -> List[float]:
        return self._gather(_TIMESTAMPS)

    def headers(self) -> List[Mapping[str, Any]]:
        """The stored (shared, read-only) headers of the valid records."""
        return self._gather(_HEADERS)

    def producer_ids(self) -> List[int]:
        return self._gather(StoredBatch.producer_id_column)

    # -- lazy scalar view -------------------------------------------------------

    @property
    def records(self) -> RecordView:
        """The valid records as a list-like view of the log's own (shared)
        record objects, so callers that hand them on must copy."""
        if self._view is None:
            self._view = RecordView(
                self._batches, self._lo, self._hi, self._count
            )
        return self._view

    def __repr__(self) -> str:
        return (
            f"ColumnarBatch(valid={self._count}, scanned={self.scanned}, "
            f"batches={len(self._batches)}, next_offset={self.next_offset})"
        )


class ColumnarSlab:
    """A write-side batch: parallel columns headed for one partition, and
    the one batch type the log appends (markers go through
    ``append_marker``).

    Carries the producer metadata of Kafka's batch header; the sequences
    of its records follow ``base_sequence``. The log adopts the column
    lists by reference, so whoever builds a slab hands them over for good.
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
        headers: List[Mapping[str, Any]],
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
