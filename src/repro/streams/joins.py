"""Join processors: stream-stream (windowed), stream-table, table-table.

The paper's Section 5 distinguishes joins by their *output type*:

* a **stream-stream left join outputs an append-only stream**, where an
  eagerly emitted ``(a, null)`` could never be revoked. These joins
  therefore hold non-joined results until the join window plus grace has
  elapsed in stream time — the only operators that delay emission.
* a **table-table join outputs a table**, so results are emitted
  speculatively and later out-of-order updates simply produce amendment
  Changes downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import and_, is_not
from typing import Any, Callable, Optional

from repro.streams.processor import Processor
from repro.streams.records import Change, ColumnChunk, StreamRecord

Joiner = Callable[[Any, Any], Any]


@dataclass(frozen=True)
class JoinWindows:
    """The temporal join predicate: right.ts in [left.ts − before, left.ts + after],
    with a grace period bounding how late records may still join."""

    before_ms: float
    after_ms: float
    grace_ms: float = 24 * 3600 * 1000.0

    @classmethod
    def of(cls, size_ms: float) -> "JoinWindows":
        if size_ms < 0:
            raise ValueError("join window must be >= 0")
        return cls(before_ms=size_ms, after_ms=size_ms)

    def grace(self, grace_ms: float) -> "JoinWindows":
        if grace_ms < 0:
            raise ValueError("grace must be >= 0")
        return JoinWindows(self.before_ms, self.after_ms, grace_ms)

    @property
    def retention_ms(self) -> float:
        return self.before_ms + self.after_ms + self.grace_ms


class StreamJoinSideProcessor(Processor):
    """One side of a windowed stream-stream join.

    Both sides share two window stores (one per side's record buffer). For
    left/outer joins, records that found no partner are tracked and the
    (value, null) result is emitted only once stream time passes their
    timestamp + window + grace — never eagerly, because the output stream
    is append-only and cannot be amended.
    """

    def __init__(
        self,
        this_store: str,
        other_store: str,
        windows: JoinWindows,
        joiner: Joiner,
        is_left_side: bool,
        emit_unmatched: bool,
    ) -> None:
        self._this_store_name = this_store
        self._other_store_name = other_store
        self._windows = windows
        self._joiner = joiner
        self._is_left = is_left_side
        self._emit_unmatched = emit_unmatched
        self.joined_results = 0
        self.unmatched_results = 0

    def init(self, context) -> None:
        super().init(context)
        self._this_store = context.state_store(self._this_store_name)
        self._other_store = context.state_store(self._other_store_name)

    def process(self, record: StreamRecord) -> None:
        if record.key is None:
            return
        ts = record.timestamp
        if self._is_left:
            lo, hi = ts - self._windows.before_ms, ts + self._windows.after_ms
        else:
            lo, hi = ts - self._windows.after_ms, ts + self._windows.before_ms

        # Buffer this record for the other side's future lookups. The store
        # value is a list of [value, matched] entries (several records may
        # share a key and timestamp).
        entries = self._this_store.fetch(record.key, ts) or []
        entry = [record.value, False]
        entries = list(entries) + [entry]
        self._this_store.put(record.key, ts, entries)

        matched = False
        other_windows = self._other_store.fetch_range(record.key, lo, hi)
        for other_ts, other_entries in other_windows:
            changed = False
            for other_entry in other_entries:
                matched = True
                changed = changed or not other_entry[1]
                other_entry[1] = True
                left_v, right_v = (
                    (record.value, other_entry[0])
                    if self._is_left
                    else (other_entry[0], record.value)
                )
                self.joined_results += 1
                self.context.forward(
                    StreamRecord(
                        key=record.key,
                        value=self._joiner(left_v, right_v),
                        timestamp=max(ts, other_ts),
                        headers=record.headers,
                    )
                )
            if changed:
                # Persist the matched flags so recovery does not re-emit
                # spurious unmatched results.
                self._other_store.put(record.key, other_ts, other_entries)
        if matched:
            entry[1] = True
            self._this_store.put(record.key, ts, entries)

        self._flush_expired()

    def _flush_expired(self) -> None:
        """Emit (value, null) for this side's records whose join window has
        closed unmatched, then GC both buffers."""
        stream_time = self.context.stream_time
        close_before = stream_time - (
            self._windows.before_ms + self._windows.after_ms + self._windows.grace_ms
        )
        if self._emit_unmatched:
            for (key, ts), entries in list(self._this_store.all()):
                if ts >= close_before:
                    continue
                for value, was_matched in entries:
                    if was_matched:
                        continue
                    left_v, right_v = (
                        (value, None) if self._is_left else (None, value)
                    )
                    self.unmatched_results += 1
                    self.context.forward(
                        StreamRecord(
                            key=key,
                            value=self._joiner(left_v, right_v),
                            timestamp=ts,
                        )
                    )
        self._this_store.expire_before(close_before)

    def on_commit(self) -> None:
        self._flush_expired()


class StreamTableJoinProcessor(Processor):
    """Stream-table join: each stream record is enriched with the table's
    current value for its key (no windowing; the table side drives nothing)."""

    def __init__(self, table_store: str, joiner: Joiner, left_join: bool) -> None:
        self._table_store_name = table_store
        self._joiner = joiner
        self._left_join = left_join

    def init(self, context) -> None:
        super().init(context)
        self._table = context.state_store(self._table_store_name)

    def process(self, record: StreamRecord) -> None:
        if record.key is None:
            return
        table_value = self._table.get(record.key)
        if table_value is None and not self._left_join:
            return
        self.context.forward(
            record.with_value(self._joiner(record.value, table_value))
        )

    def process_batch(self, chunk: ColumnChunk) -> None:
        """One store call looks up the whole chunk's keys, and the records
        that join are picked in C. The table cannot change under the scan:
        its updates arrive as chunks of their own, from another queue of
        the same task."""
        keys = chunk.keys
        rows = self._table.get_many(keys)
        joins = map(is_not, keys, repeat(None))
        if not self._left_join:
            joins = map(and_, joins, map(is_not, rows, repeat(None)))
        kept = list(compress(range(len(keys)), joins))
        if not kept:
            return
        if len(kept) != len(keys):
            chunk = chunk.take(kept, self.context.stream_time)
            rows = [rows[i] for i in kept]
        self.context.forward_chunk(
            chunk.with_values(list(map(self._joiner, chunk.values, rows)))
        )


class TableTableJoinProcessor(Processor):
    """One side of a table-table join.

    Output is a table, so results are emitted speculatively: a revision on
    either input produces an amendment Change downstream (the paper's
    (a, null) then (a, b) sequence, which is correct for tables).
    """

    def __init__(
        self,
        other_store: str,
        joiner: Joiner,
        this_is_left: bool,
        left_outer: bool,
        right_outer: bool,
    ) -> None:
        self._other_store_name = other_store
        self._joiner = joiner
        self._this_is_left = this_is_left
        self._left_outer = left_outer
        self._right_outer = right_outer

    def init(self, context) -> None:
        super().init(context)
        self._other = context.state_store(self._other_store_name)

    def _join(self, this_value: Any, other_value: Any) -> Optional[Any]:
        if self._this_is_left:
            left, right = this_value, other_value
        else:
            left, right = other_value, this_value
        if left is None and right is None:
            return None
        if left is None and not self._right_outer:
            return None
        if right is None and not self._left_outer:
            return None
        return self._joiner(left, right)

    def process(self, record: StreamRecord) -> None:
        change: Change = record.value
        other_value = self._other.get(record.key)
        new = self._join(change.new, other_value) if change.new is not None else (
            self._join(None, other_value)
        )
        old = self._join(change.old, other_value) if change.old is not None else (
            self._join(None, other_value) if other_value is not None else None
        )
        if new is None and old is None:
            return
        self.context.forward(record.with_value(Change(new, old)))
