"""Per-partition record queues and the deterministic next-record choice.

Within a task, records from each source topic partition are buffered in a
FIFO queue; the task always processes the queue whose head record has the
smallest timestamp. This is the deterministic, timestamp-based incoming
record choice the paper credits for Kafka Streams' determinism when
multiple input streams feed one task (Section 7).

A queue is a deque of :class:`ColumnCursor` (the parallel key / value /
timestamp / header / offset columns of one fetched batch, a read position
and — traced — when the batch was fetched), from which
:meth:`PartitionGroup.next_chunk` slices the maximal run that a
record-at-a-time choice would consume back-to-back from the same queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.broker.partition import TopicPartition
from repro.streams.records import ColumnChunk


class ColumnCursor:
    """One fetched batch as parallel columns plus a read position."""

    __slots__ = (
        "keys", "values", "timestamps", "headers", "offsets", "fetched_at", "pos",
    )

    def __init__(self, keys, values, timestamps, headers, offsets, fetched_at=None):
        self.keys = keys
        self.values = values
        self.timestamps = timestamps
        self.headers = headers
        self.offsets = offsets
        self.fetched_at = fetched_at
        self.pos = 0

    def remaining(self) -> int:
        return len(self.keys) - self.pos


class RecordQueue:
    """FIFO of records from one source topic partition."""

    def __init__(self, tp: TopicPartition) -> None:
        self.tp = tp
        self._cursors: Deque[ColumnCursor] = deque()

    def push_columns(
        self, keys, values, timestamps, headers, offsets, fetched_at=None
    ) -> None:
        if keys:
            self._cursors.append(
                ColumnCursor(keys, values, timestamps, headers, offsets, fetched_at)
            )

    def head_timestamp(self) -> Optional[float]:
        if self._cursors:
            cursor = self._cursors[0]
            return cursor.timestamps[cursor.pos]
        return None

    def head_cursor(self) -> Optional[ColumnCursor]:
        return self._cursors[0] if self._cursors else None

    def __len__(self) -> int:
        return sum(c.remaining() for c in self._cursors)


class PartitionGroup:
    """All of a task's record queues plus the choosing logic."""

    def __init__(self, partitions: List[TopicPartition]) -> None:
        self._order = sorted(partitions)
        self._queues: Dict[TopicPartition, RecordQueue] = {
            tp: RecordQueue(tp) for tp in self._order
        }
        self._single = (
            self._queues[self._order[0]] if len(self._order) == 1 else None
        )

    def add_columns(
        self, tp, keys, values, timestamps, headers, offsets, fetched_at=None
    ) -> None:
        self._queues[tp].push_columns(
            keys, values, timestamps, headers, offsets, fetched_at
        )

    def next_chunk(self) -> Optional[Tuple[TopicPartition, ColumnChunk, int]]:
        """Slice the next run of records as a column chunk: from the
        non-empty queue with the smallest head timestamp (ties broken by
        sorted partition order, for determinism), for as long as choosing
        record by record would stay on that queue.

        Returns ``(tp, chunk, last_offset)`` or ``None`` when empty. The
        run extends while the cursor's next timestamp stays below every
        other queue's head — or equal to it, when this queue wins the
        tie-break. Queues are static while a chunk is built (intake happens
        between polls), so the other-queue minimum is computed once. Chunks
        never span cursors: a fetch batch boundary ends the run.
        """
        # Single-input tasks (the common case) have no competing queue:
        # a whole cursor is one chunk (only a competing queue ever leaves
        # a cursor part-read).
        single = self._single
        if single is not None:
            if not single._cursors:
                return None
            cursor = single._cursors.popleft()
            chunk = ColumnChunk(
                cursor.keys, cursor.values, cursor.timestamps, cursor.headers,
                fetched_at=cursor.fetched_at,
            )
            return single.tp, chunk, cursor.offsets[-1]

        best: Optional[RecordQueue] = None
        best_ts: Optional[float] = None
        for tp in self._order:
            queue = self._queues[tp]
            ts = queue.head_timestamp()
            if ts is None:
                continue
            if best_ts is None or ts < best_ts:
                best, best_ts = queue, ts
        if best is None:
            return None
        cursor = best.head_cursor()

        # Minimum head timestamp among the *other* queues, and whether the
        # chosen queue wins a tie against every holder of that minimum
        # (i.e. no holder precedes it in sorted-partition order).
        other_min: Optional[float] = None
        tie_ok = True
        passed_best = False
        for tp in self._order:
            queue = self._queues[tp]
            if queue is best:
                passed_best = True
                continue
            ts = queue.head_timestamp()
            if ts is None:
                continue
            if other_min is None or ts < other_min:
                other_min = ts
                tie_ok = passed_best
            elif ts == other_min and not passed_best:
                tie_ok = False

        timestamps = cursor.timestamps
        start = cursor.pos
        n = len(timestamps)
        if other_min is None:
            end = n
        else:
            end = start
            while end < n:
                ts = timestamps[end]
                if ts < other_min or (ts == other_min and tie_ok):
                    end += 1
                else:
                    break
        chunk = ColumnChunk(
            cursor.keys[start:end],
            cursor.values[start:end],
            timestamps[start:end],
            cursor.headers[start:end],
            fetched_at=cursor.fetched_at,
        )
        last_offset = cursor.offsets[end - 1]
        if end == n:
            best._cursors.popleft()
        else:
            cursor.pos = end
        return best.tp, chunk, last_offset

    def buffered(self) -> int:
        return sum(len(q) for q in self._queues.values())
